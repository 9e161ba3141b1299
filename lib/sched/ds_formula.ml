module IE = Kernel_ir.Info_extractor
module Data = Kernel_ir.Data

let pinned_words pinned =
  Msutil.Listx.sum_by (fun (d : Data.t) -> d.size) pinned

(* DS(C) is the maximum over kernel positions [i] of a suffix sum of
   inputs, a prefix sum of results and the intermediates whose
   [producer..last-consumer] interval crosses [i]. [peak_at i] differs from
   [peak_at (i-1)] only by those sums and by the intervals that open or
   close at [i], so one pass with difference arrays visits every object
   once instead of once per kernel position. The equivalence suite checks
   it against the quadratic closed form and a symbolic execution of the
   kernel sequence on random applications. *)
let closed_form_fast ?(pinned = []) (profile : IE.cluster_profile) =
  let kps = profile.IE.kernel_profiles in
  let n = List.length kps in
  if n = 0 then pinned_words pinned
  else begin
    let pinned_ids = Hashtbl.create (List.length pinned + 1) in
    List.iter (fun (d : Data.t) -> Hashtbl.replace pinned_ids d.id ()) pinned;
    let pos_of = Hashtbl.create (n * 2) in
    List.iteri
      (fun pos k -> Hashtbl.replace pos_of k pos)
      profile.IE.cluster.Kernel_ir.Cluster.kernels;
    let d_suffix = Array.make (n + 1) 0 in
    let rout = Array.make n 0 in
    (* diff.(i) accumulates interval openings minus closings; its running
       sum at position i is the live intermediate words crossing i *)
    let diff = Array.make (n + 1) 0 in
    List.iteri
      (fun pos (p : IE.kernel_profile) ->
        d_suffix.(pos) <-
          Msutil.Listx.sum_by
            (fun (d : Data.t) ->
              if Hashtbl.mem pinned_ids d.id then 0 else d.size)
            p.IE.d_objects;
        rout.(pos) <- IE.rout_words p;
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
      d_suffix.(i) <- d_suffix.(i) + d_suffix.(i + 1)
    done;
    let best = ref 0 and rout_prefix = ref 0 and inter = ref 0 in
    for i = 0 to n - 1 do
      rout_prefix := !rout_prefix + rout.(i);
      inter := !inter + diff.(i);
      let peak = d_suffix.(i) + !rout_prefix + !inter in
      if peak > !best then best := peak
    done;
    !best + pinned_words pinned
  end

let split_fast ?(pinned = []) (profile : IE.cluster_profile) =
  let invariant_inputs =
    List.filter (fun (d : Data.t) -> d.Data.invariant) profile.IE.external_inputs
  in
  let invariant_pinned =
    List.filter (fun (d : Data.t) -> d.Data.invariant) pinned
  in
  let constants =
    Msutil.Listx.uniq
      (fun (a : Data.t) b -> a.Data.id = b.Data.id)
      (invariant_inputs @ invariant_pinned)
  in
  let regular_pinned =
    List.filter (fun (d : Data.t) -> not d.Data.invariant) pinned
  in
  let constant_words = pinned_words constants in
  let per_iteration =
    closed_form_fast ~pinned:(constants @ regular_pinned) profile
    - constant_words
  in
  (per_iteration, constant_words)

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
