module hybster/benchmark

go 1.22

require hybster v0.0.0

replace hybster => ../
