package server

// Shorthands for the suites: the registry's write and query surface is
// ApplyEdgesStamped and TopKQ; these spell the common argument shapes.

func (r *Registry) applyEdges(name string, edges [][2]int32, insert bool) (UpdateResult, error) {
	return r.applyEdgesAck(name, edges, insert, AckDurable)
}

func (r *Registry) applyEdgesAck(name string, edges [][2]int32, insert bool, ack string) (UpdateResult, error) {
	return r.ApplyEdgesStamped(name, edges, nil, insert, ack)
}

func (r *Registry) topK(name string, k int, algo string) (TopKResult, error) {
	return r.TopKQ(name, TopKQuery{K: k, Algo: algo})
}
