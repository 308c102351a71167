module extremenc/benchmark

go 1.23

require extremenc v0.0.0

replace extremenc => ../
