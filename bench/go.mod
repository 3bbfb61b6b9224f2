module sofos/bench

go 1.22

require sofos v0.0.0

replace sofos => ../
