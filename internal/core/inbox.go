package core

// inbox is a controller's FIFO of delivered messages waiting for their
// per-message CPU slot: a ring that grows to the deepest backlog seen and is
// reused from then on, so queueing a message allocates nothing.
//
// A controller's handler pushes the message and Execs one method value, bound
// at construction, that pops the head. That pairs every Exec with the message
// it was queued for because all of a controller's message Execs cost the same
// Costs.PerMsg: on the simulation a cpu.Pool or cpu.Core finishes equal-cost
// work in submission order (its finish time max(now, earliest core free) + d
// never decreases, and equal finish times run in scheduling order), and the
// realtime loop runs its queue strictly FIFO.
type inbox struct {
	ring       []Message
	head, size int
}

func (q *inbox) push(m Message) {
	if q.size == len(q.ring) {
		grown := make([]Message, max(2*len(q.ring), 16))
		n := copy(grown, q.ring[q.head:])
		copy(grown[n:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.size)%len(q.ring)] = m
	q.size++
}

// pop removes the oldest message. Its slot is zeroed so the ring never pins a
// payload its new owner has released or handed on.
func (q *inbox) pop() Message {
	m := q.ring[q.head]
	q.ring[q.head] = Message{}
	q.head = (q.head + 1) % len(q.ring)
	q.size--
	return m
}
