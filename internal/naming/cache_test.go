package naming

import (
	"reflect"
	"testing"

	"nvdclean/internal/gen"
)

// TestCachedAnalysisMatchesUncached runs the vendor and product
// analyses with and without warm caches and requires identical output:
// the caches are memoizations of pure functions, never semantic state.
func TestCachedAnalysisMatchesUncached(t *testing.T) {
	snap, _, _, err := gen.Generate(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	lcs := NewLCSCache()
	prods := NewProductCache()

	baseV := AnalyzeVendorsN(snap, 2)
	baseP := AnalyzeProductsN(snap, 2)

	// Cold caches, then warm caches on the identical snapshot.
	for pass := 0; pass < 2; pass++ {
		gotV := AnalyzeVendorsCached(snap, 2, lcs)
		if !reflect.DeepEqual(gotV.Pairs, baseV.Pairs) {
			t.Fatalf("pass %d: cached vendor pairs differ", pass)
		}
		gotP := AnalyzeProductsCached(snap, nil, 2, prods)
		if !reflect.DeepEqual(gotP.Pairs, baseP.Pairs) {
			t.Fatalf("pass %d: cached product pairs differ", pass)
		}
		if !reflect.DeepEqual(gotP.CVECount, baseP.CVECount) {
			t.Fatalf("pass %d: cached product CVE counts differ", pass)
		}
	}
	if lcs.Len() == 0 {
		t.Error("LCS cache never populated")
	}
	if prods.Len() == 0 {
		t.Error("product cache never populated")
	}

	// A changed catalog must invalidate only that vendor's block:
	// mutate one entry's product and re-analyze.
	mod := snap.Clone()
	mod.Entries[0].CPEs[0].Product = mod.Entries[0].CPEs[0].Product + "_v2"
	want := AnalyzeProductsN(mod, 1)
	got := AnalyzeProductsCached(mod, nil, 4, prods)
	if !reflect.DeepEqual(got.Pairs, want.Pairs) {
		t.Fatal("warm cache produced wrong pairs after catalog change")
	}
}

// TestProductSurveyThroughVendorMap: surveying the original names
// through a vendor map is the survey of the vendor-consolidated
// snapshot, which the map need not rewrite.
func TestProductSurveyThroughVendorMap(t *testing.T) {
	snap, _, _, err := gen.Generate(gen.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	vm := AnalyzeVendors(snap).Consolidate(HeuristicJudge{})
	if vm.Len() == 0 {
		t.Fatal("fixture consolidates no vendors")
	}
	applied := snap.Clone()
	vm.Apply(applied)
	want := AnalyzeProductsN(applied, 2)
	before := snap.Clone()
	got := AnalyzeProductsCached(snap, vm, 2, NewProductCache())
	if !reflect.DeepEqual(got.Pairs, want.Pairs) || !reflect.DeepEqual(got.CVECount, want.CVECount) {
		t.Fatal("survey through the vendor map differs from the survey of the mapped snapshot")
	}
	for i, e := range before.Entries {
		if !e.Equal(snap.Entries[i]) {
			t.Fatalf("%s: the survey rewrote an entry", e.ID)
		}
	}
}
