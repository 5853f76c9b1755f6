module github.com/optlab/opt/benchmark

go 1.22

require github.com/optlab/opt v0.0.0

replace github.com/optlab/opt => ../
