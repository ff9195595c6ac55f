(** Architectural constants of a PROMISE bank and the multi-bank fabric
    (paper §3.1, Fig. 2). *)

val n_row : int
(** 512 SRAM rows per bank. *)

val n_col : int
(** 256 SRAM columns per bank. *)

val word_bits : int
(** B_w = 8: each stored word is 8 bits (1 sign + 7 magnitude). *)

val rows_per_word_row : int
(** 4: an 8-bit word spans 4 consecutive rows (sub-ranged 4b MSB / 4b LSB
    across two neighboring columns). *)

val cols_per_word : int
(** 2: the MSB/LSB column pair of the sub-ranged read. *)

val lanes : int
(** 128 = [n_col / cols_per_word]: elements produced by one aREAD. *)

val word_rows : int
(** 128 = [n_row / rows_per_word_row]: addressable word rows per bank. *)

val xreg_depth : int
(** 8 X-REG vectors of [lanes] elements. *)

val banks_per_page : int
(** 4. *)

val max_pages : int
(** 8. *)

val max_banks : int
(** 32 = [banks_per_page * max_pages]. *)

val cycle_ns : float
(** 1 cycle = 1 ns (Table 3). *)

