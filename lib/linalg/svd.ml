let principal_directions ?rows a =
  let cov = Mat.covariance ?rows a in
  let { Eigen.values; vectors } = Eigen.symmetric cov in
  (vectors, values)
