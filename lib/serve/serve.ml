module Obs = Sider_obs.Obs

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition (format version 0.0.4). *)

let mangle name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "sider_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

(* Prometheus floats are Go-style: plain decimal with enough digits to
   round-trip, and [+Inf]/[-Inf]/[NaN] spelled out. *)
let float_str v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else
    let s = Printf.sprintf "%.12g" v in
    if float_of_string s = v then s else Printf.sprintf "%.17g" v

(* Label names must match [[a-zA-Z_][a-zA-Z0-9_]*]; anything else maps
   to [_] (a leading digit included). *)
let sanitize_label_key k =
  let b = Buffer.create (String.length k) in
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char b c
      | '0' .. '9' when i > 0 -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    k;
  if Buffer.length b = 0 then "_" else Buffer.contents b

(* Instrument names carry their labels as an [Obs.labeled_name] suffix;
   [exposition] splits them back apart, groups series of the same
   family (one [# TYPE] per family, samples together — the format
   forbids repeating or interleaving families) and renders each series
   with its sanitized keys and escaped values. *)
let exposition metrics =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s;
                                   Buffer.add_char b '\n') fmt in
  let order = ref [] in
  let tbl : (int * string, ((string * string) list * Obs.metric) list ref)
      Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (m : Obs.metric) ->
      let name =
        match m with
        | Obs.Counter { name; _ } | Obs.Gauge { name; _ }
        | Obs.Histogram { name; _ } -> name
      in
      let base, labels = Obs.split_labeled name in
      let kind =
        match m with
        | Obs.Counter _ -> 0
        | Obs.Gauge _ -> 1
        | Obs.Histogram _ -> 2
      in
      let key = (kind, base) in
      match Hashtbl.find_opt tbl key with
      | Some items -> items := (labels, m) :: !items
      | None ->
        Hashtbl.add tbl key (ref [ (labels, m) ]);
        order := key :: !order)
    metrics;
  let suffix ?quantile labels =
    let items =
      List.map
        (fun (k, v) ->
          sanitize_label_key k ^ "=\"" ^ Obs.label_escape v ^ "\"")
        labels
    in
    let items =
      match quantile with
      | None -> items
      | Some q -> items @ [ Printf.sprintf "quantile=\"%s\"" q ]
    in
    match items with
    | [] -> ""
    | _ -> "{" ^ String.concat "," items ^ "}"
  in
  List.iter
    (fun ((kind, base) as key) ->
      let items = List.rev !(Hashtbl.find tbl key) in
      match kind with
      | 0 ->
        let n = mangle base ^ "_total" in
        line "# TYPE %s counter" n;
        List.iter
          (function
            | labels, Obs.Counter { total; _ } ->
              line "%s%s %d" n (suffix labels) total
            | _ -> ())
          items
      | 1 ->
        let n = mangle base in
        line "# TYPE %s gauge" n;
        List.iter
          (function
            | labels, Obs.Gauge { value; _ } ->
              line "%s%s %s" n (suffix labels) (float_str value)
            | _ -> ())
          items
      | _ ->
        let n = mangle base in
        line "# TYPE %s summary" n;
        List.iter
          (function
            | labels, Obs.Histogram { count; sum; p50; p95; p99; _ } ->
              line "%s%s %s" n (suffix ~quantile:"0.5" labels) (float_str p50);
              line "%s%s %s" n (suffix ~quantile:"0.95" labels)
                (float_str p95);
              line "%s%s %s" n (suffix ~quantile:"0.99" labels)
                (float_str p99);
              line "%s_sum%s %s" n (suffix labels) (float_str sum);
              line "%s_count%s %d" n (suffix labels) count
            | _ -> ())
          items;
        line "# TYPE %s_max gauge" n;
        List.iter
          (function
            | labels, Obs.Histogram { max; _ } ->
              line "%s_max%s %s" n (suffix labels) (float_str max)
            | _ -> ())
          items)
    (List.rev !order);
  Buffer.contents b

(* Inverse of one [exposition] sample line, used by `sider top` and the
   live-scrape tests.  Comments, blank lines and anything that does not
   parse yield [None]. *)
let parse_sample line =
  let n = String.length line in
  if n = 0 || line.[0] = '#' then None
  else
    let name_end =
      match String.index_opt line '{' with
      | Some b ->
        let rec scan i in_q =
          if i >= n then None
          else
            match line.[i] with
            | '\\' when in_q -> scan (i + 2) in_q
            | '"' -> scan (i + 1) (not in_q)
            | '}' when not in_q -> Some (i + 1)
            | _ -> scan (i + 1) in_q
        in
        scan (b + 1) false
      | None -> String.index_opt line ' '
    in
    match name_end with
    | None -> None
    | Some e when e >= n || line.[e] <> ' ' -> None
    | Some e ->
      let composed = String.sub line 0 e in
      let rest = String.sub line (e + 1) (n - e - 1) in
      let value =
        match String.trim rest with
        | "+Inf" -> Some Float.infinity
        | "-Inf" -> Some Float.neg_infinity
        | "NaN" -> Some Float.nan
        | v -> float_of_string_opt v
      in
      (match value with
       | None -> None
       | Some v ->
         let name, labels = Obs.split_labeled composed in
         Some (name, labels, v))
