module madeus/benchmark

go 1.22

require madeus v0.0.0

replace madeus => ../
