package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// Fact is a datum one analyzer attaches to a types.Object (usually a
// *types.Func) in one package so that passes over importing packages can
// consume it — the mechanism that makes interprocedural analysis
// compositional. The interface mirrors golang.org/x/tools/go/analysis:
// a fact type is a pointer to a struct with an AFact marker method, and
// an analyzer declares every fact type it uses in Analyzer.FactTypes.
//
// Unlike x/tools, facts here never cross process boundaries (the module
// driver holds every package of one run in memory), so no gob encoding
// is required — but keeping fact types gob-encodable anyway keeps the
// eventual migration mechanical.
type Fact interface{ AFact() }

// objFactKey identifies one analyzer's fact set on one object.
type objFactKey struct {
	a   *Analyzer
	obj types.Object
}

// factStore is the module-wide fact table shared by every pass of one
// driver run. Objects are unique per loader (one token.FileSet, one
// type-checked package graph), so types.Object identity is a sound key
// across packages.
type factStore struct {
	obj map[objFactKey][]Fact
}

func newFactStore() *factStore {
	return &factStore{
		obj: map[objFactKey][]Fact{},
	}
}

// validFactType checks fact against the analyzer's declared FactTypes.
// Exporting or importing an undeclared fact type is a programmer error,
// reported loudly (x/tools panics here too).
func validFactType(a *Analyzer, fact Fact) {
	t := reflect.TypeOf(fact)
	if t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("analysis: fact %T is not a pointer", fact))
	}
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			return
		}
	}
	panic(fmt.Sprintf("analysis: analyzer %q did not declare fact type %T in FactTypes", a.Name, fact))
}

// exportObject records fact on obj, replacing any prior fact of the
// same concrete type by the same analyzer.
func (s *factStore) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	validFactType(a, fact)
	if obj == nil {
		panic("analysis: ExportObjectFact with nil object")
	}
	key := objFactKey{a, obj}
	t := reflect.TypeOf(fact)
	for i, f := range s.obj[key] {
		if reflect.TypeOf(f) == t {
			s.obj[key][i] = fact
			return
		}
	}
	s.obj[key] = append(s.obj[key], fact)
}

// importObject copies the fact of ptr's concrete type attached to obj
// into *ptr, reporting whether one existed.
func (s *factStore) importObject(a *Analyzer, obj types.Object, ptr Fact) bool {
	validFactType(a, ptr)
	if obj == nil {
		return false
	}
	t := reflect.TypeOf(ptr)
	for _, f := range s.obj[objFactKey{a, obj}] {
		if reflect.TypeOf(f) == t {
			reflect.ValueOf(ptr).Elem().Set(reflect.ValueOf(f).Elem())
			return true
		}
	}
	return false
}
