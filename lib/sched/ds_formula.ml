module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data

(* DS(C) is the maximum over kernel positions [i] of a suffix sum of
   inputs, a prefix sum of results and the intermediates whose
   [producer..last-consumer] interval crosses [i]. [peak_at i] differs from
   [peak_at (i-1)] only by those sums and by the intervals that open or
   close at [i], so one pass with difference arrays visits every object
   once instead of once per kernel position. A pinned object is never one
   of the cluster's results, so pinning only removes its words from the
   input suffix up to its last consumer and adds them to the constant or
   regular pinned sum: a split query is one O(cluster kernels) scan with no
   allocation.
   The equivalence suite checks the sweep against the quadratic closed
   form and a symbolic execution of the kernel sequence on random
   applications. *)
type sweep = {
  n : int;
  rp_inter : int array;
      (* rout prefix + live intermediate words, by kernel position *)
  d_suffix : int array;  (* suffix sums of unpinned input words *)
  last_pos : (int, int) Hashtbl.t;  (* input id -> last consumer position *)
  pinned_ids : (int, unit) Hashtbl.t;  (* inputs removed from [d_suffix] *)
  const_ids : (int, unit) Hashtbl.t;  (* the deduped constants *)
  mutable const_words : int;
  mutable reg_words : int;  (* regular pinned words (list sum) *)
}

let add_constant s (d : Data.t) =
  if not (Hashtbl.mem s.const_ids d.id) then begin
    Hashtbl.add s.const_ids d.id ();
    s.const_words <- s.const_words + d.size
  end

(* With [constants], the cluster's invariant inputs are charged once as
   constants from the start instead of sitting in the input suffix. *)
let sweep_of ~constants (profile : IE.cluster_profile) =
  let kps = profile.IE.kernel_profiles in
  let n = List.length kps in
  let pos_of = Hashtbl.create (max 8 (n * 2)) in
  List.iteri
    (fun pos k -> Hashtbl.replace pos_of k pos)
    profile.IE.cluster.Kernel_ir.Cluster.kernels;
  let s =
    {
      n;
      rp_inter = Array.make n 0;
      d_suffix = Array.make (n + 1) 0;
      last_pos = Hashtbl.create 16;
      pinned_ids = Hashtbl.create 8;
      const_ids = Hashtbl.create 8;
      const_words = 0;
      reg_words = 0;
    }
  in
  (* diff.(i) accumulates interval openings minus closings; its running
     sum at position i is the live intermediate words crossing i *)
  let diff = Array.make (n + 1) 0 in
  List.iteri
    (fun pos (p : IE.kernel_profile) ->
      List.iter
        (fun (d : Data.t) ->
          Hashtbl.replace s.last_pos d.id pos;
          if constants && d.invariant then begin
            Hashtbl.replace s.pinned_ids d.id ();
            add_constant s d
          end
          else s.d_suffix.(pos) <- s.d_suffix.(pos) + d.size)
        p.IE.d_objects;
      s.rp_inter.(pos) <- IE.rout_words p;
      List.iter
        (fun ((d : Data.t), t) ->
          let t_pos =
            match Hashtbl.find_opt pos_of t with
            | Some pos -> pos
            | None -> assert false (* t is in the cluster by construction *)
          in
          diff.(pos) <- diff.(pos) + d.size;
          diff.(t_pos + 1) <- diff.(t_pos + 1) - d.size)
        p.IE.intermediate_objects)
    kps;
  for i = n - 1 downto 0 do
    s.d_suffix.(i) <- s.d_suffix.(i) + s.d_suffix.(i + 1)
  done;
  let rout_prefix = ref 0 and inter = ref 0 in
  for i = 0 to n - 1 do
    rout_prefix := !rout_prefix + s.rp_inter.(i);
    inter := !inter + diff.(i);
    s.rp_inter.(i) <- !rout_prefix + !inter
  done;
  s

let split_sweep profile = sweep_of ~constants:true profile

(* Peak per-iteration residency with [delta] words removed from positions
   [<= upto] (a tentative pin). *)
let peak s ~upto ~delta =
  let best = ref 0 in
  for i = 0 to s.n - 1 do
    let v =
      s.d_suffix.(i) - (if i <= upto then delta else 0) + s.rp_inter.(i)
    in
    if v > !best then best := v
  done;
  !best

(* The suffix strip pinning [d] implies: its last consumer position and its
   words, or nothing when [d] is no cluster input or is already pinned. *)
let strip_of s (d : Data.t) =
  match Hashtbl.find_opt s.last_pos d.id with
  | Some pos when not (Hashtbl.mem s.pinned_ids d.id) -> (pos, d.size)
  | _ -> (-1, 0)

let split s = (peak s ~upto:(-1) ~delta:0 + s.reg_words, s.const_words)

let split_if_pinned s (d : Data.t) =
  let upto, delta = strip_of s d in
  let per_iteration = peak s ~upto ~delta + s.reg_words in
  if d.invariant then
    ( per_iteration,
      if Hashtbl.mem s.const_ids d.id then s.const_words
      else s.const_words + d.size )
  else (per_iteration + d.size, s.const_words)

let pin_as ~constant s (d : Data.t) =
  (match strip_of s d with
  | -1, _ -> ()
  | upto, size ->
    Hashtbl.add s.pinned_ids d.id ();
    for i = 0 to upto do
      s.d_suffix.(i) <- s.d_suffix.(i) - size
    done);
  if constant then add_constant s d else s.reg_words <- s.reg_words + d.size

let pin s (d : Data.t) = pin_as ~constant:d.invariant s d

let closed_form_fast ?(pinned = []) profile =
  let s = sweep_of ~constants:false profile in
  List.iter (pin_as ~constant:false s) pinned;
  fst (split s)

let split_fast ?(pinned = []) profile =
  let s = split_sweep profile in
  List.iter (pin s) pinned;
  split s

let footprint_basic (profile : IE.cluster_profile) =
  let inputs =
    Msutil.Listx.sum_by
      (fun (d : Data.t) -> d.size)
      profile.IE.external_inputs
  in
  let produced =
    Msutil.Listx.sum_by
      (fun p -> IE.rout_words p + IE.intermediate_words p)
      profile.IE.kernel_profiles
  in
  inputs + produced
