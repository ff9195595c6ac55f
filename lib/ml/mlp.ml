module Rng = Promise_analog.Rng

type activation = Sigmoid | Relu

type layer = { weights : Linalg.mat; activation : activation }
type t = { layers : layer array }

let create rng ~sizes ~hidden_activation =
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | [ _ ] | [] -> []
  in
  let dims = pairs sizes in
  if dims = [] then invalid_arg "Mlp.create: need at least two layer sizes";
  let n = List.length dims in
  let layers =
    List.mapi
      (fun i (fan_in, fan_out) ->
        let sigma = sqrt (2.0 /. float_of_int fan_in) in
        let weights =
          Array.init fan_out (fun _ ->
              Array.init fan_in (fun _ ->
                  Rng.gaussian_scaled rng ~mu:0.0 ~sigma))
        in
        let activation = if i = n - 1 then Sigmoid else hidden_activation in
        { weights; activation })
      dims
  in
  { layers = Array.of_list layers }

let n_layers t = Array.length t.layers
let fan_in t i = Linalg.mat_cols t.layers.(i).weights
let fan_out t i = Linalg.mat_rows t.layers.(i).weights

let layer_sizes t =
  fan_in t 0 :: List.init (n_layers t) (fan_out t)

(* Per-call scratch, reused for every sample of one call: [outs.(i)] is
   layer i's output, [deltas.(i)] the loss gradient wrt layer i's
   pre-activation, [grads.(i)] the gradient wrt layer i's input. The
   scratch is owned by one call, never by the network, so concurrent
   calls on one network from several domains stay safe. *)
type scratch = {
  outs : float array array;
  deltas : float array array;
  grads : float array array;
}

let scratch t =
  let n = n_layers t in
  for i = 0 to n - 1 do
    let cols = fan_in t i in
    if
      (i > 0 && cols <> fan_out t (i - 1))
      || Array.exists (fun row -> Array.length row <> cols) t.layers.(i).weights
    then invalid_arg "Mlp: layer weight shapes do not chain"
  done;
  {
    outs = Array.init n (fun i -> Array.make (fan_out t i) 0.0);
    deltas = Array.init n (fun i -> Array.make (fan_out t i) 0.0);
    grads = Array.init n (fun i -> Array.make (fan_in t i) 0.0);
  }

let input s x i = if i = 0 then x else s.outs.(i - 1)

(* The forward kernel: layer by layer, each row dotted with the layer
   input in ascending k, then the activation. The top layer keeps its
   logits unless [top_activation]. *)
let forward_into t s x ~top_activation =
  if Array.length x <> fan_in t 0 then
    invalid_arg "Mlp: feature vector length does not match the fan-in";
  let n = n_layers t in
  for i = 0 to n - 1 do
    let layer = t.layers.(i) in
    let w = layer.weights and a = input s x i and out = s.outs.(i) in
    let activate = i < n - 1 || top_activation in
    for r = 0 to Array.length w - 1 do
      let row = w.(r) in
      let acc = ref 0.0 in
      for k = 0 to Array.length a - 1 do
        acc := !acc +. (row.(k) *. a.(k))
      done;
      let z = !acc in
      out.(r) <-
        (if not activate then z
         else
           match layer.activation with
           | Sigmoid -> 1.0 /. (1.0 +. exp (-.z))
           | Relu -> Float.max 0.0 z)
    done
  done

(* Cross-entropy seed on the logits: softmax (max, then exp, then sum,
   all k ascending) minus the one-hot label. *)
let softmax_seed s ~label =
  let n = Array.length s.outs in
  let z = s.outs.(n - 1) and d = s.deltas.(n - 1) in
  let m = ref neg_infinity in
  for k = 0 to Array.length z - 1 do
    m := Float.max !m z.(k)
  done;
  for k = 0 to Array.length z - 1 do
    d.(k) <- exp (z.(k) -. !m)
  done;
  let sum = ref 0.0 in
  for k = 0 to Array.length d - 1 do
    sum := !sum +. d.(k)
  done;
  for k = 0 to Array.length d - 1 do
    d.(k) <- (d.(k) /. !sum) -. if k = label then 1.0 else 0.0
  done

type step = Gradients | Sgd of float

(* The backward kernel, from the seed in [deltas.(n-1)] down to layer 0.
   Layer i's input gradient accumulates over r ascending with layer i's
   weights before any update; [Sgd lr] then updates each weight in place
   right after its last read. [Sgd] skips layer 0's input gradient,
   which nothing reads; [Gradients] fills every [grads.(i)] and leaves
   the weights alone. *)
let backward t s x step =
  for i = n_layers t - 1 downto 0 do
    let w = t.layers.(i).weights in
    let a = input s x i and d = s.deltas.(i) and g = s.grads.(i) in
    (match step with
    | Sgd lr when i = 0 ->
        for r = 0 to Array.length w - 1 do
          let row = w.(r) and dr = d.(r) in
          for c = 0 to Array.length a - 1 do
            row.(c) <- row.(c) -. (lr *. (dr *. a.(c)))
          done
        done
    | Sgd lr ->
        Array.fill g 0 (Array.length g) 0.0;
        for r = 0 to Array.length w - 1 do
          let row = w.(r) and dr = d.(r) in
          for c = 0 to Array.length a - 1 do
            g.(c) <- g.(c) +. (dr *. row.(c));
            row.(c) <- row.(c) -. (lr *. (dr *. a.(c)))
          done
        done
    | Gradients ->
        Array.fill g 0 (Array.length g) 0.0;
        for r = 0 to Array.length w - 1 do
          let row = w.(r) and dr = d.(r) in
          for c = 0 to Array.length a - 1 do
            g.(c) <- g.(c) +. (dr *. row.(c))
          done
        done);
    if i > 0 then begin
      let below = s.deltas.(i - 1) in
      match t.layers.(i - 1).activation with
      | Sigmoid ->
          for j = 0 to Array.length a - 1 do
            below.(j) <- g.(j) *. (a.(j) *. (1.0 -. a.(j)))
          done
      | Relu ->
          for j = 0 to Array.length a - 1 do
            below.(j) <- g.(j) *. if a.(j) > 0.0 then 1.0 else 0.0
          done
    end
  done

let forward t x =
  let s = scratch t in
  forward_into t s x ~top_activation:true;
  Array.append [| x |] s.outs

let logits t x =
  let s = scratch t in
  forward_into t s x ~top_activation:false;
  s.outs.(n_layers t - 1)

let predict t x = Linalg.argmax (logits t x)

let validate t data =
  let features = fan_in t 0 and classes = fan_out t (n_layers t - 1) in
  Array.iteri
    (fun i { Dataset.features = x; label } ->
      if Array.length x <> features || label < 0 || label >= classes then
        invalid_arg
          (Printf.sprintf
             "Mlp.train: sample %d has %d features and label %d; the \
              network takes %d features and labels 0..%d"
             i (Array.length x) label features (classes - 1)))
    data

let train t rng ~data ~epochs ~lr =
  validate t data;
  let s = scratch t and step = Sgd lr in
  let order = Array.init (Array.length data) (fun i -> i) in
  for _epoch = 1 to epochs do
    Rng.shuffle rng order;
    for o = 0 to Array.length order - 1 do
      let sample = data.(order.(o)) in
      let x = sample.Dataset.features in
      forward_into t s x ~top_activation:false;
      softmax_seed s ~label:sample.Dataset.label;
      backward t s x step
    done
  done

let accuracy t data =
  let s = scratch t in
  let top = s.outs.(n_layers t - 1) in
  let correct = ref 0 in
  Array.iter
    (fun sample ->
      forward_into t s sample.Dataset.features ~top_activation:false;
      if Linalg.argmax top = sample.Dataset.label then incr correct)
    data;
  float_of_int !correct /. float_of_int (Array.length data)

let sakr_stats t data =
  let n = n_layers t in
  let s = scratch t in
  let z = s.outs.(n - 1) and seed = s.deltas.(n - 1) in
  let sum_ea = ref 0.0 and sum_ew = ref 0.0 and count = ref 0 in
  (* A one-output network has no runner-up, hence no margin. *)
  if Array.length z >= 2 then
    for si = 0 to Array.length data - 1 do
      let x = data.(si).Dataset.features in
      forward_into t s x ~top_activation:false;
      let i1 = Linalg.argmax z in
      let i2 = ref (if i1 = 0 then 1 else 0) in
      for k = 0 to Array.length z - 1 do
        if k <> i1 && z.(k) > z.(!i2) then i2 := k
      done;
      let margin = z.(i1) -. z.(!i2) in
      if margin > 1e-9 then begin
        for k = 0 to Array.length seed - 1 do
          seed.(k) <-
            (if k = i1 then 1.0 else if k = !i2 then -1.0 else 0.0)
        done;
        backward t s x Gradients;
        (* Squared gradients summed layer 0 first, rows then columns. *)
        let gw = ref 0.0 and ga = ref 0.0 in
        for i = 0 to n - 1 do
          let a = input s x i and d = s.deltas.(i) in
          for r = 0 to Array.length d - 1 do
            let dr = d.(r) in
            for c = 0 to Array.length a - 1 do
              let v = dr *. a.(c) in
              gw := !gw +. (v *. v)
            done
          done
        done;
        for i = 0 to n - 1 do
          let g = s.grads.(i) in
          for j = 0 to Array.length g - 1 do
            ga := !ga +. (g.(j) *. g.(j))
          done
        done;
        let denom = 12.0 *. margin *. margin in
        sum_ea := !sum_ea +. (!ga /. denom);
        sum_ew := !sum_ew +. (!gw /. denom);
        incr count
      end
    done;
  if !count = 0 then (0.0, 0.0)
  else
    let c = float_of_int !count in
    (!sum_ea /. c, !sum_ew /. c)

let per_layer_fanin t = List.init (n_layers t) (fan_in t)
