let principal_directions a =
  let cov = Mat.covariance a in
  let { Eigen.values; vectors } = Eigen.symmetric cov in
  (vectors, values)
