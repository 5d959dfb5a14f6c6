(* The comparison tolerance [Cx] and [Matrix] default to.  A private
   module of the library, so no other library reads it. *)
let default_eps = 1e-9
