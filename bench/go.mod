module codelayout/bench

go 1.24

require codelayout v0.0.0

replace codelayout => ../
