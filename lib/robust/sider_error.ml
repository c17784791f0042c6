type context = {
  class_index : int option;
  constraint_tag : string option;
  sweep : int option;
  detail : string;
}

type t =
  | Singular_covariance of context
  | Solver_divergence of context
  | Non_convergence of context
  | Degenerate_data of context
  | Nan_detected of context
  | Io_failure of context

exception Error of t

let context ?class_index ?constraint_tag ?sweep detail =
  { class_index; constraint_tag; sweep; detail }

let singular_covariance ?class_index ?constraint_tag detail =
  Singular_covariance (context ?class_index ?constraint_tag detail)

let solver_divergence ?class_index ?sweep detail =
  Solver_divergence (context ?class_index ?sweep detail)

let non_convergence detail = Non_convergence (context detail)

let degenerate_data ?constraint_tag detail =
  Degenerate_data (context ?constraint_tag detail)

let nan_detected ?class_index ?sweep detail =
  Nan_detected (context ?class_index ?sweep detail)

let io_failure detail = Io_failure (context detail)

let context_of = function
  | Singular_covariance c | Solver_divergence c | Non_convergence c
  | Degenerate_data c | Nan_detected c | Io_failure c -> c

let label = function
  | Singular_covariance _ -> "singular-covariance"
  | Solver_divergence _ -> "solver-divergence"
  | Non_convergence _ -> "non-convergence"
  | Degenerate_data _ -> "degenerate-data"
  | Nan_detected _ -> "nan-detected"
  | Io_failure _ -> "io-failure"

let to_string e =
  let c = context_of e in
  let buf = Buffer.create 96 in
  Buffer.add_string buf (label e);
  (match c.class_index with
   | Some i -> Buffer.add_string buf (Printf.sprintf " [class %d]" i)
   | None -> ());
  (match c.constraint_tag with
   | Some tag -> Buffer.add_string buf (Printf.sprintf " [constraint %S]" tag)
   | None -> ());
  (match c.sweep with
   | Some s -> Buffer.add_string buf (Printf.sprintf " [sweep %d]" s)
   | None -> ());
  if c.detail <> "" then begin
    Buffer.add_string buf ": ";
    Buffer.add_string buf c.detail
  end;
  Buffer.contents buf

let raise_ e = raise (Error e)

let of_exn = function
  | Error e -> Some e
  | Failure msg -> Some (degenerate_data msg)
  | Invalid_argument msg -> Some (degenerate_data msg)
  | Division_by_zero -> Some (degenerate_data "division by zero")
  | Sys_error msg -> Some (io_failure msg)
  | _ -> None

let protect f =
  try Ok (f ()) with
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | e ->
    (match of_exn e with
     | Some err -> Result.Error err
     | None -> raise e)
