type t = {
  class_of_row : int array;
  members : int array array;
  per_constraint : (int * int) array array;
}

let of_constraints ~n constraints =
  if n <= 0 then invalid_arg "Partition.of_constraints: n must be positive" [@sider.allow "error-discipline"];
  (* Refine one class array constraint by constraint.  A class the
     constraint covers only in part splits: its covered rows move to a
     fresh id.  A class it covers whole keeps its id, so every id in use
     names a non-empty class and ids stay below [n].  [hits.(k)] counts
     the constraint's rows in class [k] until the class's first covered
     row decides where they all go ([dest.(k)]) and resets it to 0.
     The three work arrays are indexed by class, so they hold room for
     the ids a constraint can reach: each class splits at most once a
     constraint, so [2·next] (at most [n]), doubled when short. *)
  let cls = Array.make n 0 in
  let size = ref [||] and hits = ref [||] and dest = ref [||] in
  let room want =
    if Array.length !size < want then begin
      let len = min n (max want (2 * Array.length !size)) in
      let grow a =
        let b = Array.make len 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      size := grow !size;
      hits := grow !hits;
      dest := grow !dest
    end
  in
  room (min n 8);
  !size.(0) <- n;
  let next = ref 1 in
  Array.iter
    (fun (constr : Constr.t) ->
      room (min n (2 * !next));
      let size = !size and hits = !hits and dest = !dest in
      let rows = constr.Constr.rows in
      for i = 0 to Array.length rows - 1 do
        let k = cls.(rows.(i)) in
        hits.(k) <- hits.(k) + 1
      done;
      for i = 0 to Array.length rows - 1 do
        let r = rows.(i) in
        let k = cls.(r) in
        if hits.(k) > 0 then begin
          if hits.(k) = size.(k) then dest.(k) <- k
          else begin
            dest.(k) <- !next;
            size.(!next) <- hits.(k);
            size.(k) <- size.(k) - hits.(k);
            incr next
          end;
          hits.(k) <- 0
        end;
        cls.(r) <- dest.(k)
      done)
    constraints;
  let size = !size in
  (* Splits leave both parts non-empty, so every id below [next] names
     a class.  Renumber them by first row: rows share an id exactly when
     the same constraints cover them, so this is the numbering a row scan
     that gives each new covering set the next number assigns. *)
  let n_classes = !next in
  let renum = Array.make n_classes (-1) in
  let fresh = ref 0 in
  for r = 0 to n - 1 do
    let k = cls.(r) in
    if renum.(k) < 0 then begin
      renum.(k) <- !fresh;
      incr fresh
    end;
    cls.(r) <- renum.(k)
  done;
  let members = Array.make n_classes [||] in
  Array.iteri (fun k c -> members.(c) <- Array.make size.(k) 0) renum;
  let filled = Array.make n_classes 0 in
  for r = 0 to n - 1 do
    let c = cls.(r) in
    members.(c).(filled.(c)) <- r;
    filled.(c) <- filled.(c) + 1
  done;
  (* A constraint's rows ascend (Constr.t keeps them sorted) and every
     class it covers lies inside it whole, so a class is first met at its
     own first row.  Classes are numbered by first row, so the classes
     met for the first time come in ascending order: a row opens a new
     class exactly when its class exceeds the last one listed. *)
  let per_constraint =
    Array.map
      (fun (constr : Constr.t) ->
        let rows = constr.Constr.rows in
        let listed = ref [] and last = ref (-1) in
        for i = 0 to Array.length rows - 1 do
          let c = cls.(rows.(i)) in
          if c > !last then begin
            listed := (c, Array.length members.(c)) :: !listed;
            last := c
          end
        done;
        Array.of_list (List.rev !listed))
      constraints
  in
  { class_of_row = cls; members; per_constraint }

let n_classes t = Array.length t.members

let class_of_row t r = t.class_of_row.(r)

let members t c = t.members.(c)

let size t c = Array.length t.members.(c)

let classes_of_constraint t c = t.per_constraint.(c)
