module streamdex/benchmark

go 1.22

require streamdex v0.0.0

replace streamdex => ../
