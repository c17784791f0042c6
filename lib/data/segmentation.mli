(** Synthetic stand-in for the UCI Image Segmentation use case
    (paper Sec. IV-C).

    The generator reproduces the structural properties the Fig. 9 analysis
    depends on:

    - 2310 instances, 19 continuous attributes, 7 classes of 330;
    - strong linear dependencies between attributes (the real data's
      colour channels and their means/differences are nearly collinear),
      so after per-column standardization the leading principal components
      carry far more than unit variance and the trailing ones almost none
      — which is why the first SIDER view shows the unit-Gaussian
      background dwarfing the data and the analysis starts with a
      1-cluster constraint;
    - 'sky' and 'grass' well separated (the paper recovers them with
      Jaccard 1.0 and 0.964), the five remaining classes ('brickface',
      'cement', 'foliage', 'path', 'window') overlapping in the middle
      (Jaccard ≈ 0.2 each);
    - a small fraction of outlier rows that dominate the view after the
      three cluster constraints are absorbed. *)

val generate : ?seed:int -> unit -> Dataset.t
(** 2% of the rows are outliers. *)
