package lifecycle

// chunkLen is the number of elements in one fifo chunk.
const chunkLen = 256

// fifo is a queue of T addressed by absolute position: push appends at the
// head, drop releases everything before a position at the tail. Elements
// live in fixed-size chunks, so growing the queue copies nothing and leaves
// no garbage, and a chunk the tail has passed is reused at the head: once
// the queue stops lengthening, so does its memory, and push allocates
// nothing. With a T that holds no pointers, each chunk is an object the
// collector does not scan.
type fifo[T any] struct {
	chunks     [][]T  // chunks[k] holds positions from (first+k)*chunkLen
	spare      [][]T  // chunks the tail has passed, for the head to reuse
	first      uint64 // chunk number of chunks[0]
	tail, head uint64 // the live positions are [tail, head)
}

// len returns the number of live elements.
func (f *fifo[T]) len() int { return int(f.head - f.tail) }

// at returns the element at a live position.
func (f *fifo[T]) at(pos uint64) *T {
	return &f.chunks[pos/chunkLen-f.first][pos%chunkLen]
}

// push appends src and returns the position of its first element.
func (f *fifo[T]) push(src ...T) uint64 {
	at := f.head
	for len(src) > 0 {
		k := f.head/chunkLen - f.first
		if k == uint64(len(f.chunks)) {
			f.chunks = append(f.chunks, f.chunk())
		}
		n := copy(f.chunks[k][f.head%chunkLen:], src)
		src = src[n:]
		f.head += uint64(n)
	}
	return at
}

// chunk returns a spare chunk, or a new one.
func (f *fifo[T]) chunk() []T {
	if n := len(f.spare); n > 0 {
		c := f.spare[n-1]
		f.spare = f.spare[:n-1]
		return c
	}
	return make([]T, chunkLen)
}

// drop releases the positions before pos; chunks the tail has passed go
// to the spares.
func (f *fifo[T]) drop(pos uint64) {
	f.tail = pos
	for len(f.chunks) > 0 && f.tail >= (f.first+1)*chunkLen {
		f.spare = append(f.spare, f.chunks[0])
		n := copy(f.chunks, f.chunks[1:])
		f.chunks[n] = nil
		f.chunks = f.chunks[:n]
		f.first++
	}
}
