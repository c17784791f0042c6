(** Synthetic stand-in for the British National Corpus use case
    (paper Sec. IV-B).

    The BNC itself is licensed and cannot be redistributed, so this module
    generates a corpus with the same statistical shape the use case relies
    on: 1335 documents from the four main genres, a vector-space model of
    the 100 most frequent words (word counts over the first 2000 tokens of
    each document), genre-specific usage profiles such that

    - 'transcribed conversations' form a strongly separated cluster
      (the paper selects them with Jaccard 0.928),
    - 'academic prose' and 'broadsheet newspaper' overlap partially
      (selected together, Jaccard 0.63 / 0.35),
    - 'prose fiction' fills the remaining bulk.

    Word-frequency profiles follow a Zipfian base law with genre tilts;
    counts are drawn as a multinomial over 2000 tokens per document. *)

val generate : ?seed:int -> unit -> Dataset.t
(** The 1335×100 count matrix with genre labels (documents of 2000
    tokens on average, matching the paper's preprocessing). *)
