(** ASCII and CSV rendering for experiment results. *)

type cell = Num of float | Text of string | Missing

val print_table :
  ?out:Format.formatter ->
  title:string ->
  headers:string list ->
  rows:(string * cell list) list ->
  unit ->
  unit
(** Aligned columns; numeric cells are printed with one decimal. [headers]
    names every column, the row-label column first (pass [""] for an
    unnamed one), so it must not be empty. *)

val csv_string : headers:string list -> rows:(string * cell list) list -> string
(** One header line of [headers] (every column, the label column first),
    then one line per row: the label, then each cell — [Num] as [%.6g],
    [Text] verbatim, [Missing] empty. A field holding a comma, a quote or
    a newline is quoted. *)

val write_csv :
  path:string -> headers:string list -> rows:(string * cell list) list -> unit
(** [csv_string] written to [path]: the one CSV writer of the harness. *)

val check_writable : string -> (unit, string) result
(** Create the missing parent directories of an output path and check the
    file can be opened for writing, leaving an existing file untouched and
    creating none. [Error] is a one-line message naming the path. Run it
    on every output path before a long sweep so a bad path fails at once. *)
