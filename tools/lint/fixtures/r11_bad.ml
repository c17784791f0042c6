let unused x = R11_good.used x + 1
