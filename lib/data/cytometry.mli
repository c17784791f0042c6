(** Synthetic flow-cytometry data — the application the paper's
    conclusion points to ("potential in, e.g., computational flow
    cytometry... samples up to tens of thousands of rows from
    flow-cytometry data has shown the computations in SIDER to scale up
    well", ref. [36]).

    Generator shape (simplified FlowCAP-style):
    - each *event* (row) is a cell measured on [markers] fluorescence
      channels (default 10: FSC, SSC and 8 antibody markers);
    - cells belong to hierarchically organized *populations*
      (lymphocytes → T cells → CD4/CD8, B cells, monocytes, debris),
      each log-normal along each channel;
    - populations have very unequal abundances, as real samples do
      (debris and the dominant population swamp rare subsets — exactly
      the situation where iterative "tell me what I know" exploration
      helps find the rare populations). *)

val generate : ?seed:int -> ?n:int -> unit -> Dataset.t
(** Default [n] 20,000 events, labelled by population. *)
