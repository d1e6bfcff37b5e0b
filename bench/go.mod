module tracon/bench

go 1.22

require tracon v0.0.0

replace tracon => ../
