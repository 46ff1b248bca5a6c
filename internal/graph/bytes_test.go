package graph

import (
	"reflect"
	"testing"
)

// sliceBytes sums cap × element size over every slice field of the struct v
// points to, following embedded struct pointers: what Bytes must report, and
// must keep reporting when a field is added.
func sliceBytes(v reflect.Value) int64 {
	v = reflect.Indirect(v)
	var total int64
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Slice:
			total += int64(f.Cap()) * int64(f.Type().Elem().Size())
		case reflect.Pointer, reflect.Struct:
			total += sliceBytes(f)
		}
	}
	return total
}

func TestBytesCountsEveryArray(t *testing.T) {
	g := Symmetrize(RandomKOut(500, 5, 42))
	if got, want := g.Bytes(), sliceBytes(reflect.ValueOf(g)); got != want || got < int64(g.N()+1)*8+int64(g.M())*4 {
		t.Errorf("CSR.Bytes() = %d, its arrays hold %d", got, want)
	}
	w := RandomWeighted(500, 4, 100, 42)
	if got, want := w.Bytes(), sliceBytes(reflect.ValueOf(w)); got != want || got <= w.CSR.Bytes() {
		t.Errorf("Weighted.Bytes() = %d, its arrays hold %d", got, want)
	}
}
