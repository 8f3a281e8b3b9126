(** Front door of Mini-Argus: parse, type-check, run.

    {[
      match Miniargus.Run.run_file "prog.arg" with
      | Ok outcome -> List.iter print_endline outcome.Miniargus.Interp.output
      | Error e -> prerr_endline (Miniargus.Run.error_to_string e)
    ]} *)

type error = { phase : [ `Lex | `Parse | `Type ]; message : string; line : int }

val error_to_string : error -> string

val parse : string -> (Ast.program, error) result
(** Source text to untyped AST. *)

val check : string -> (Tast.tprogram, error) result
(** Source text to checked, typed AST. *)

val run :
  ?config:Net.config ->
  ?chan_config:Cstream.Chanhub.config ->
  ?seed:int ->
  ?echo:bool ->
  ?until:float ->
  ?crashes:(string * float) list ->
  ?recoveries:(string * float) list ->
  string ->
  (Interp.outcome, error) result
(** Parse, check and execute source text (see {!Interp.run_program}
    for the options). *)

val run_file :
  ?config:Net.config ->
  ?chan_config:Cstream.Chanhub.config ->
  ?seed:int ->
  ?echo:bool ->
  ?until:float ->
  ?crashes:(string * float) list ->
  ?recoveries:(string * float) list ->
  string ->
  (Interp.outcome, error) result
