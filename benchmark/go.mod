module sdtw/benchmark

go 1.24

require sdtw v0.0.0

replace sdtw => ../
