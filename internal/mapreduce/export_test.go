package mapreduce

// SplitRows returns the rows a TupleRows split views.
func SplitRows(s Split) [][]float64 { return s.(rowsSplit) }
