package lifecycle

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestStorePointerFree pins the finalized store's layout: a header and a
// span hold no field the garbage collector must scan, so the store's chunks
// are objects it never walks, and a span stays within 40 bytes and a header
// within 80.
func TestStorePointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: the store must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("header", reflect.TypeOf(header{}))
	walk("span", reflect.TypeOf(span{}))
	if size := unsafe.Sizeof(span{}); size > 40 {
		t.Errorf("span is %d bytes, want at most 40", size)
	}
	if size := unsafe.Sizeof(header{}); size > 80 {
		t.Errorf("header is %d bytes, want at most 80", size)
	}
}

// TestFifoChunks: pushes that straddle chunk boundaries read back in
// order, and once the queue's length stops growing, dropping from the tail
// hands chunks to the head instead of allocating new ones.
func TestFifoChunks(t *testing.T) {
	var f fifo[int]
	src := make([]int, 100)
	next := 0
	push := func() uint64 {
		for i := range src {
			src[i] = next + i
		}
		next += len(src)
		return f.push(src...)
	}
	for round := 0; round < 40; round++ {
		at := push()
		if f.len() > 3*chunkLen {
			f.drop(f.tail + uint64(len(src)))
		}
		for i := 0; i < len(src); i++ {
			if got := *f.at(at + uint64(i)); got != int(at)+i {
				t.Fatalf("round %d: position %d holds %d", round, at+uint64(i), got)
			}
		}
	}
	if chunks := len(f.chunks) + len(f.spare); chunks > 5 {
		t.Errorf("%d chunks for at most %d live elements, want at most 5", chunks, 3*chunkLen+len(src))
	}
	if got := *f.at(f.tail); got != int(f.tail) {
		t.Errorf("tail position %d holds %d", f.tail, got)
	}
}
