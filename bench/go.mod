module tetriserve/bench

go 1.22

require tetriserve v0.0.0

replace tetriserve => ../
