module galois/benchmark

go 1.24

require galois v0.0.0

replace galois => ../
