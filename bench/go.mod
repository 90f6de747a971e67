module hetgrid/bench

go 1.22

require hetgrid v0.0.0

replace hetgrid => ../
