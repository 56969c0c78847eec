module draid/benchmark

go 1.23

require draid v0.0.0

replace draid => ../
