module mrskyline/bench

go 1.22

require mrskyline v0.0.0

replace mrskyline => ../
