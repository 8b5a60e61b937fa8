package cluster

// arenaChunk is the slot count of one arena chunk. Chunks are never
// reallocated once created, so pointers handed out stay valid while the
// arena grows — only reset invalidates them.
const arenaChunk = 1024

// arena hands out pointers into reusable fixed-size chunks. It backs the
// cluster's application and VM populations: a Rebuild resets the arena
// and re-initializes slots in place instead of allocating thousands of
// fresh objects per cell of a sweep. Slots are returned uninitialized;
// callers fully overwrite them (AppGenerator.NextInto / server.InitVM).
type arena[T any] struct {
	chunks [][]T
	chunk  int // index of the chunk currently being filled
	next   int // next free slot in that chunk
}

// alloc returns a pointer to the next free slot, growing by one chunk
// when the current one fills.
func (a *arena[T]) alloc() *T {
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunk))
	}
	p := &a.chunks[a.chunk][a.next]
	a.next++
	if a.next == arenaChunk {
		a.chunk++
		a.next = 0
	}
	return p
}

// reset makes every slot available again, retaining the chunks. All
// previously handed-out pointers become recycled storage — the caller
// must have dropped them (Rebuild clears every server's hosted table).
func (a *arena[T]) reset() {
	a.chunk = 0
	a.next = 0
}
