module cafmpi/benchmark

go 1.22

require cafmpi v0.0.0

replace cafmpi => ../
