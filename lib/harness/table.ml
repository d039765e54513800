type cell = Num of float | Text of string | Missing

let cell_string = function
  | Num v ->
      if Float.is_nan v then "nan"
      else if Float.abs v >= 1000.0 then Printf.sprintf "%.0f" v
      else Printf.sprintf "%.1f" v
  | Text s -> s
  | Missing -> "-"

let print_table ?(out = Format.std_formatter) ~title ~headers ~rows () =
  let all_rows =
    (List.hd headers, List.tl headers)
    :: List.map (fun (l, cs) -> (l, List.map cell_string cs)) rows
  in
  let n_cols =
    List.fold_left (fun acc (_, cs) -> max acc (List.length cs)) 0 all_rows
  in
  let widths = Array.make (n_cols + 1) 0 in
  List.iter
    (fun (label, cs) ->
      widths.(0) <- max widths.(0) (String.length label);
      List.iteri
        (fun i c -> widths.(i + 1) <- max widths.(i + 1) (String.length c))
        cs)
    all_rows;
  Format.fprintf out "@.== %s ==@." title;
  let print_row (label, cs) =
    Format.fprintf out "%-*s" widths.(0) label;
    List.iteri
      (fun i c -> Format.fprintf out "  %*s" widths.(i + 1) c)
      cs;
    Format.fprintf out "@."
  in
  print_row (List.hd all_rows);
  let rule =
    String.make
      (Array.fold_left ( + ) 0 widths + (2 * n_cols))
      '-'
  in
  Format.fprintf out "%s@." rule;
  List.iter print_row (List.tl all_rows)

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let csv_string ~headers ~rows =
  let b = Buffer.create 256 in
  Buffer.add_string b (String.concat "," (List.map csv_escape headers));
  Buffer.add_char b '\n';
  List.iter
    (fun (label, cs) ->
      let cells =
        label
        :: List.map
             (function
               | Num v -> Printf.sprintf "%.6g" v
               | Text s -> s
               | Missing -> "")
             cs
      in
      Buffer.add_string b (String.concat "," (List.map csv_escape cells));
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

let write_csv ~path ~headers ~rows =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (csv_string ~headers ~rows))

let rec mkdirs dir =
  if dir <> Filename.dirname dir && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let check_writable path =
  mkdirs (Filename.dirname path);
  let existed = Sys.file_exists path in
  match open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path with
  | oc ->
      close_out oc;
      if not existed then Sys.remove path;
      Ok ()
  | exception Sys_error msg ->
      (* An open failure reads "<path>: <reason>". *)
      Error ("cannot write " ^ msg)
