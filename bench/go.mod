module cellgan/bench

go 1.22

require cellgan v0.0.0

replace cellgan => ../
