(* Each key that occurs more than once, once, in ascending order. *)
let duplicates cmp keys =
  let rec scan acc = function
    | a :: (b :: _ as rest) ->
      let repeated =
        cmp a b = 0 && match acc with d :: _ -> cmp d a <> 0 | [] -> true
      in
      scan (if repeated then a :: acc else acc) rest
    | _ -> List.rev acc
  in
  scan [] (List.sort cmp keys)

let kernels_diags kernels =
  let ks =
    List.concat
      (List.mapi
         (fun i (k : Kernel.t) ->
           (if k.id <> i then
              [
                Diag.v ~kernel:k.name Diag.Invalid_app
                  "kernel %S has id %d at position %d" k.name k.id i;
              ]
            else [])
           @ Kernel.violations k)
         kernels)
  in
  let dups =
    List.map
      (fun name ->
        Diag.v ~kernel:name Diag.Invalid_app "duplicate kernel name %S" name)
      (duplicates String.compare
         (List.map (fun (k : Kernel.t) -> k.name) kernels))
  in
  ks @ dups

let data_diags ~n_kernels data =
  let dups =
    List.map
      (fun name ->
        Diag.v ~data:name Diag.Invalid_app "duplicate data name %S" name)
      (duplicates String.compare
         (List.map (fun (d : Data.t) -> d.Data.name) data))
  in
  let id_dups =
    List.map
      (fun id -> Diag.v Diag.Invalid_app "duplicate data id %d" id)
      (duplicates Int.compare (List.map (fun (d : Data.t) -> d.Data.id) data))
  in
  List.concat_map (Data.violations ~n_kernels) data @ dups @ id_dups

let application ~name ~kernels ~data ~iterations =
  ignore name;
  List.concat
    [
      (if iterations <= 0 then
         [
           Diag.v Diag.Invalid_app "iterations must be positive (got %d)"
             iterations;
         ]
       else []);
      (if kernels = [] then [ Diag.v Diag.Invalid_app "no kernels" ] else []);
      kernels_diags kernels;
      data_diags ~n_kernels:(List.length kernels) data;
    ]

let partition ~n_kernels sizes =
  List.concat
    [
      List.filter_map
        (fun s ->
          if s <= 0 then
            Some
              (Diag.v Diag.Invalid_clustering "non-positive cluster size %d" s)
          else None)
        sizes;
      (let sum = List.fold_left ( + ) 0 sizes in
       if sum <> n_kernels then
         [
           Diag.v Diag.Invalid_clustering
             "cluster sizes sum to %d but the application has %d kernels" sum
             n_kernels;
         ]
       else []);
    ]

let config (c : Morphosys.Config.t) =
  match Morphosys.Config.validate c with
  | Ok () -> []
  | Error msg -> [ Diag.v Diag.Invalid_config "%s" msg ]
