module github.com/p2prepro/locaware/benchmark

go 1.24

require github.com/p2prepro/locaware v0.0.0

replace github.com/p2prepro/locaware => ../
