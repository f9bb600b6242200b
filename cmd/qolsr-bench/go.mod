module qolsr/cmd/qolsr-bench

go 1.24

require qolsr v0.0.0

replace qolsr => ../..
