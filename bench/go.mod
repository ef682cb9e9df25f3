module routeconv/bench

go 1.22

require routeconv v0.0.0

replace routeconv => ../
