package mapreduce

// ArenaSplitBytes returns the bytes an arena's split views.
func ArenaSplitBytes(s Split) []byte { return s.(arenaSplit).buf }
