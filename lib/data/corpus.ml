open Sider_linalg
open Sider_rand

let genres =
  [| "prose fiction"; "transcribed conversations"; "broadsheet newspaper";
     "academic prose" |]

let genre_sizes = [| 476; 153; 418; 288 |]

let vocab_size = 100

let vocabulary =
  Array.init vocab_size (fun i -> Printf.sprintf "w%03d" (i + 1))

(* Base Zipf law over the 100 most frequent words. *)
let base_weights =
  Array.init vocab_size (fun i -> 1.0 /. float_of_int (i + 2))

(* Multiplicative genre tilts.  Word blocks play the role of
   part-of-speech-like groups:
     0-9    function words/pronouns/fillers (dominant in speech)
     10-29  general vocabulary
     30-49  formal/abstract nouns (academic register)
     50-69  reportage vocabulary (news register)
     70-89  narrative vocabulary (fiction register)
     90-99  rare tail. *)
(* Tuned so that (i) conversations separate sharply, (ii) academic prose
   and broadsheet newspaper overlap into one visual cluster (the paper's
   Fig. 8a selection mixes them 0.63 / 0.35), and (iii) prose fiction
   stays close to the corpus-wide profile, so that once the other groups
   are constrained the background explains the rest (Fig. 8b). *)
let tilt genre w =
  match genre with
  | 1 (* transcribed conversations: heavy fillers, little formal/news *) ->
    if w < 10 then 3.5
    else if w < 30 then 1.2
    else if w < 50 then 0.25
    else if w < 70 then 0.35
    else if w < 90 then 0.5
    else 0.6
  | 3 (* academic prose: formal register *) ->
    if w < 10 then 0.6
    else if w < 30 then 1.0
    else if w < 50 then 2.4
    else if w < 70 then 1.4
    else if w < 90 then 0.55
    else 1.0
  | 2 (* broadsheet: formal register too, slightly more reportage *) ->
    if w < 10 then 0.65
    else if w < 30 then 1.0
    else if w < 50 then 2.0
    else if w < 70 then 1.8
    else if w < 90 then 0.6
    else 1.0
  | _ (* prose fiction: mild narrative tilt, near the corpus profile *) ->
    if w < 10 then 1.25
    else if w < 30 then 1.0
    else if w < 50 then 0.7
    else if w < 70 then 0.75
    else if w < 90 then 1.5
    else 0.9

let genre_profile genre =
  let w = Array.mapi (fun i b -> b *. tilt genre i) base_weights in
  let total = Array.fold_left ( +. ) 0.0 w in
  Array.map (fun x -> x /. total) w

(* Draw a multinomial by sequential binomial-free sampling: documents have
   2000 tokens over 100 cells, so Poissonized sampling (count_w ~
   Poisson(len * p_w), then no renormalization) is statistically adequate
   and O(vocab).  Per-document Dirichlet jitter models author variation. *)
(* Documents of 2000 words on average. *)
let doc_length = 2000

let document rng profile =
  let alpha = Array.map (fun p -> 60.0 *. float_of_int vocab_size *. p) profile in
  let theta = Sampler.dirichlet rng alpha in
  Array.map
    (fun p -> float_of_int (Sampler.poisson rng ~lambda:(float_of_int doc_length *. p)))
    theta

let generate ?(seed = 11) () =
  let rng = Rng.create seed in
  let n = Array.fold_left ( + ) 0 genre_sizes in
  let m = Mat.create n vocab_size in
  let labels = Array.make n "" in
  let profiles = Array.init (Array.length genres) genre_profile in
  let r = ref 0 in
  Array.iteri
    (fun g size ->
      for _ = 1 to size do
        Mat.set_row m !r (document rng profiles.(g));
        labels.(!r) <- genres.(g);
        incr r
      done)
    genre_sizes;
  Dataset.create ~name:"bnc_synth" ~labels ~columns:vocabulary m
