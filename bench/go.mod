module blockdag/bench

go 1.24

require blockdag v0.0.0

replace blockdag => ../
