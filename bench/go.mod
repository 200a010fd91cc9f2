module ansmet/bench

go 1.22

require ansmet v0.0.0

replace ansmet => ../
