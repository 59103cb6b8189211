package harness

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"hoop/internal/engine"
	"hoop/internal/workload"
)

// liveCellKey is the memo key RunMatrixOn and the sections use for a
// cell ("" when the cell is not cacheable).
func liveCellKey(c Cell) string {
	kind, parts := c.memo()
	if parts == nil {
		return ""
	}
	return memoKey(kind, parts...)
}

// leafFields calls fn with the path and field index of every leaf field
// of struct type typ, descending into nested structs.
func leafFields(t *testing.T, typ reflect.Type, path string, index []int, fn func(path string, index []int)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		p, idx := path+"."+f.Name, append(slices.Clip(index), i)
		if !f.IsExported() {
			t.Fatalf("%s is unexported: the completeness test cannot perturb it", p)
		}
		if f.Type.Kind() == reflect.Struct {
			leafFields(t, f.Type, p, idx, fn)
			continue
		}
		fn(p, idx)
	}
}

// perturb changes v by the smallest step its kind allows, so the test
// also catches key formatting that rounds (as %+v does to durations).
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Map:
		v.Set(reflect.MakeMapWithSize(v.Type(), 1))
		v.SetMapIndex(reflect.ValueOf("k").Convert(v.Type().Key()), reflect.Zero(v.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for kind %s", path, v.Kind())
	}
}

// unkeyedFields perturbs, one at a time, every leaf field of engine.Config
// (through Cell.Mut) and of workload.Options (through the cell's resolved
// workload options), plus the cell's own seed and transaction count, and
// returns the fields whose perturbation left key unchanged. A perturbed
// field may instead make the cell uncacheable (key ""), which is safe.
func unkeyedFields(t *testing.T, key func(Cell) string) []string {
	base := Cell{Scheme: engine.SchemeHOOP, Workload: workload.MustBuild("ycsb-a", workload.Options{}), Txs: 1200, Seed: 2}
	baseKey := key(base)
	if baseKey == "" {
		t.Fatal("base cell is not cacheable")
	}
	var missed []string
	check := func(path string, c Cell) {
		if k := key(c); k == baseKey {
			missed = append(missed, path)
		}
	}
	leafFields(t, reflect.TypeOf(engine.Config{}), "Config", nil, func(path string, index []int) {
		c := base
		c.Mut = func(cfg *engine.Config) { perturb(t, path, reflect.ValueOf(cfg).Elem().FieldByIndex(index)) }
		check(path, c)
	})
	leafFields(t, reflect.TypeOf(workload.Options{}), "Options", nil, func(path string, index []int) {
		c := base
		perturb(t, path, reflect.ValueOf(&c.Workload.Opts).Elem().FieldByIndex(index))
		check(path, c)
	})
	c := base
	c.Seed++
	check("Cell.Seed", c)
	c = base
	c.Txs++
	check("Cell.Txs", c)
	c = base
	c.Workload.Name += "x"
	check("Cell.Workload.Name", c)
	return missed
}

// TestMemoKeyCompleteness: every input that can change a cell's window
// changes its memo key.
func TestMemoKeyCompleteness(t *testing.T) {
	if missed := unkeyedFields(t, liveCellKey); len(missed) > 0 {
		t.Fatalf("memo key ignores %v: a cached result would be served for different inputs", missed)
	}
}

// TestMemoKeyCompletenessRejectsBrokenKeys is the oracle's negative
// control: it must flag a key function that drops one config field, and
// the %+v formatting the v3 cache keyed with, which rounds every
// simulated duration through Time.String.
func TestMemoKeyCompletenessRejectsBrokenKeys(t *testing.T) {
	dropGCPeriod := func(c Cell) string {
		mut := c.mut()
		c.Mut = func(cfg *engine.Config) {
			if mut != nil {
				mut(cfg)
			}
			cfg.Hoop.GCPeriod = engine.DefaultConfig(c.Scheme).Hoop.GCPeriod
		}
		return liveCellKey(c)
	}
	if missed := unkeyedFields(t, dropGCPeriod); !slices.Equal(missed, []string{"Config.Hoop.GCPeriod"}) {
		t.Errorf("key dropping Hoop.GCPeriod: oracle flagged %v, want exactly [Config.Hoop.GCPeriod]", missed)
	}
	plusV := func(c Cell) string {
		kind, parts := c.memo()
		if parts == nil {
			return ""
		}
		return fmt.Sprintf("%s %+v", kind, parts)
	}
	if missed := unkeyedFields(t, plusV); !slices.Contains(missed, "Config.Hoop.GCPeriod") || !slices.Contains(missed, "Config.OpCost") {
		t.Errorf("%%+v key: oracle flagged %v, want the rounded durations among them", missed)
	}
}
