(* Conversion from runtime values back to IR constants, used by the
   constant-folding pass. Lives here (not in Vvalue) to keep the
   dependency on Vir.Const construction in one place. *)

let to_const (v : Vvalue.t) : Vir.Const.t =
  match v with
  | Vvalue.I (s, lanes) when Ilanes.length lanes = 1 ->
    Vir.Const.Cint (s, Ilanes.unsafe_get lanes 0)
  | Vvalue.F (s, [| x |]) -> Vir.Const.Cfloat (s, x)
  | Vvalue.I (s, lanes) ->
    Vir.Const.Cvec
      (Array.map
         (fun x -> Vir.Const.Cint (s, x))
         (Ilanes.to_array lanes))
  | Vvalue.F (s, lanes) ->
    Vir.Const.Cvec (Array.map (fun x -> Vir.Const.Cfloat (s, x)) lanes)
