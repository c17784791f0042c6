open Sider_linalg
open Sider_robust

let sep = ','

let parse_line line =
  let buf = Buffer.create 32 in
  let fields = ref [] in
  let n = String.length line in
  let rec field i =
    if i >= n then finish i
    else if line.[i] = '"' then quoted (i + 1)
    else if line.[i] = sep then begin
      push ();
      field (i + 1)
    end
    else begin
      Buffer.add_char buf line.[i];
      field (i + 1)
    end
  and quoted i =
    if i >= n then failwith "Csv.parse_line: unterminated quote"
    else if line.[i] = '"' then
      if i + 1 < n && line.[i + 1] = '"' then begin
        Buffer.add_char buf '"';
        quoted (i + 2)
      end
      else field (i + 1)
    else begin
      Buffer.add_char buf line.[i];
      quoted (i + 1)
    end
  and push () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  and finish _ = push ()
  in
  field 0;
  List.rev !fields

let quote_field s =
  let needs_quote =
    String.exists (fun c -> c = sep || c = '"' || c = '\n' || c = '\r') s
  in
  if not needs_quote then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let reject detail = Sider_error.raise_ (Sider_error.degenerate_data detail)

(* Duplicate header names make every by-name operation (label columns,
   axis labels, doctor reports) ambiguous; reject them up front. *)
let check_duplicate_headers header =
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i name ->
      match Hashtbl.find_opt seen name with
      | Some j ->
        reject
          (Printf.sprintf
             "Csv: duplicate column name %S (columns %d and %d)" name
             (j + 1) (i + 1))
      | None -> Hashtbl.add seen name i)
    header

let of_lines ?label_column ~name lines =
  match lines with
  | [] -> reject "Csv: empty input"
  | header :: rows ->
    let header = parse_line header |> Array.of_list in
    check_duplicate_headers header;
    let label_idx =
      match label_column with
      | None -> None
      | Some c ->
        (match Array.find_index (String.equal c) header with
         | Some i -> Some i
         | None -> failwith (Printf.sprintf "Csv: label column %S not found" c))
    in
    let keep =
      Array.to_list header
      |> List.mapi (fun i _ -> i)
      |> List.filter (fun i -> Some i <> label_idx)
      |> Array.of_list
    in
    let columns = Array.map (fun i -> header.(i)) keep in
    let rows =
      rows
      |> List.filter (fun l -> String.trim l <> "")
      |> List.mapi (fun lineno l -> (lineno + 2, parse_line l))
    in
    let parse_float lineno col s =
      let trimmed = String.trim s in
      if trimmed = "" then
        reject
          (Printf.sprintf "Csv: line %d, column %S: missing value" lineno
             col)
      else
        match float_of_string_opt trimmed with
        | Some f -> f
        | None ->
          reject
            (Printf.sprintf "Csv: line %d, column %S: not a number: %S"
               lineno col s)
    in
    let n = List.length rows in
    let matrix = Mat.create n (Array.length keep) in
    let labels = Array.make n "" in
    List.iteri
      (fun r (lineno, fields) ->
        let fields = Array.of_list fields in
        if Array.length fields <> Array.length header then
          failwith
            (Printf.sprintf "Csv: line %d: expected %d fields, got %d" lineno
               (Array.length header) (Array.length fields));
        Array.iteri
          (fun j src ->
            Mat.set matrix r j
              (parse_float lineno header.(src) fields.(src)))
          keep;
        match label_idx with
        | Some i -> labels.(r) <- fields.(i)
        | None -> ())
      rows;
    let labels = if label_idx = None then None else Some labels in
    Dataset.create ~name ?labels ~columns matrix

(* Lines without their CR (CRLF input is tolerated); empty lines are
   dropped. *)
let read_file ?label_column path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  String.split_on_char '\n' text
  |> List.map (fun l ->
      if String.length l > 0 && l.[String.length l - 1] = '\r' then
        String.sub l 0 (String.length l - 1)
      else l)
  |> List.filter (fun l -> l <> "")
  |> of_lines ?label_column ~name:(Filename.basename path)

let to_string ds =
  let buf = Buffer.create 4096 in
  let seps = String.make 1 sep in
  let cols = Array.to_list (Dataset.columns ds) in
  let cols =
    match Dataset.labels ds with
    | Some _ -> cols @ [ "class" ]
    | None -> cols
  in
  Buffer.add_string buf
    (String.concat seps (List.map quote_field cols));
  Buffer.add_char buf '\n';
  let m = Dataset.matrix ds in
  for i = 0 to Dataset.n_rows ds - 1 do
    let fields =
      List.init (Dataset.n_cols ds) (fun j ->
          Printf.sprintf "%.17g" (Mat.get m i j))
    in
    let fields =
      match Dataset.labels ds with
      | Some l -> fields @ [ quote_field l.(i) ]
      | None -> fields
    in
    Buffer.add_string buf (String.concat seps fields);
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write_file path ds =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_string ds))
