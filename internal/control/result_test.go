package control

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"tetriserve/internal/model"
	"tetriserve/internal/simgpu"
	"tetriserve/internal/workload"
)

// TestRunRecordPointerFree pins the run log's layout: a RunRecord holds no
// field the garbage collector must scan (its members live on Result.RunIDs),
// and it stays within 72 bytes.
func TestRunRecordPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.String, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: RunRecord must hold no pointer", path, typ.Kind())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		}
	}
	walk("RunRecord", reflect.TypeOf(RunRecord{}))
	if size := unsafe.Sizeof(RunRecord{}); size > 72 {
		t.Errorf("RunRecord is %d bytes, want at most 72", size)
	}
}

// logResult builds a result with runs records of one or two members each
// and one outcome per three records.
func logResult(runs int) *Result {
	r := &Result{NGPU: 8}
	ids := []workload.RequestID{0, 0}
	for i := 0; i < runs; i++ {
		ids[0], ids[1] = workload.RequestID(i/3), workload.RequestID(i/3+1)
		r.AppendRun(RunRecord{
			Start:  time.Duration(i) * time.Millisecond,
			End:    time.Duration(i+1) * time.Millisecond,
			Res:    model.Res1024,
			Group:  simgpu.MaskOf(simgpu.GPUID(i % 8)),
			Degree: 1,
			Steps:  5,
		}, ids[:1+i%2])
		if i%3 == 0 {
			r.Outcomes = append(r.Outcomes, Outcome{ID: workload.RequestID(i / 3), Res: model.Res1024})
		}
	}
	return r
}

// cloneSink keeps the clones the tests and benchmark take live.
var cloneSink *Result

// TestResultCloneBulk: a clone equals its source, shares no storage with it,
// and costs a fixed number of allocations however long the run log is.
func TestResultCloneBulk(t *testing.T) {
	src := logResult(1000)
	c := src.Clone()
	if !reflect.DeepEqual(c, src) {
		t.Fatal("clone differs from its source")
	}
	for i := range src.Runs {
		if got, want := c.RunRequests(i), src.RunRequests(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d: clone members %v, source %v", i, got, want)
		}
	}
	c.RunIDs[0]++
	c.Runs[0].Steps++
	c.Outcomes[0].Steps++
	if src.RunIDs[0] != 0 || src.Runs[0].Steps != 5 || src.Outcomes[0].Steps != 0 {
		t.Fatal("clone shares storage with its source")
	}
	for _, n := range []int{10, 10000} {
		r := logResult(n)
		if avg := testing.AllocsPerRun(20, func() { cloneSink = r.Clone() }); avg > 4 {
			t.Fatalf("cloning %d records allocates %.0f times, want at most 4", n, avg)
		}
	}
}

// BenchmarkResultClone measures the snapshot the online driver takes on the
// loop goroutine for every GET /v1/trace, over a 100 000-record run log.
func BenchmarkResultClone(b *testing.B) {
	r := logResult(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = r.Clone()
	}
}
