module preserial/bench

go 1.22

require preserial v0.0.0

replace preserial => ../
