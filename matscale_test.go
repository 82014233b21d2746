package matscale_test

import (
	"math"
	"strings"
	"testing"

	"matscale"
)

func TestQuickstartFlow(t *testing.T) {
	m := matscale.CM5(64)
	a := matscale.RandomMatrix(64, 64, 1)
	b := matscale.RandomMatrix(64, 64, 2)
	res, err := matscale.GK(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := matscale.Mul(a, b)
	// Random float inputs: reduction order may differ, compare with a
	// tight tolerance.
	d := maxDiff(res.C, want)
	if d > 1e-10 {
		t.Fatalf("product differs by %v", d)
	}
	if e := res.Efficiency(); e <= 0 || e >= 1 {
		t.Fatalf("efficiency = %v", e)
	}
}

func TestSelectPerMachine(t *testing.T) {
	// On the nCUBE-like machine with few processors relative to n,
	// Berntsen is predicted (Figure 1's b region).
	if s := matscale.Select(matscale.NCube2(64), 1024); s.Name != "Berntsen" {
		t.Fatalf("NCube2 p=64 n=1024: chose %s, want Berntsen", s.Name)
	}
	// Same machine, p between n^(3/2) and n³: GK.
	if s := matscale.Select(matscale.NCube2(4096), 64); s.Name != "GK" {
		t.Fatalf("NCube2 p=4096 n=64: chose %s, want GK", s.Name)
	}
	// SIMD machine in the interior of the n² < p < n³ band: DNS.
	if s := matscale.Select(matscale.SIMD(1<<15), 64); s.Name != "DNS" {
		t.Fatalf("SIMD p=2^15 n=64: chose %s, want DNS", s.Name)
	}
	// SIMD machine in the n^(3/2) ≤ p ≤ n² band: Cannon.
	if s := matscale.Select(matscale.SIMD(1<<14), 128); s.Name != "Cannon" {
		t.Fatalf("SIMD p=2^14 n=128: chose %s, want Cannon", s.Name)
	}
}

func TestRunAutoRunsChosenAlgorithm(t *testing.T) {
	m := matscale.SIMD(64)
	a := matscale.RandomMatrix(48, 48, 5)
	b := matscale.RandomMatrix(48, 48, 6)
	res, sel, err := matscale.RunAuto(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name == "" || res.C == nil {
		t.Fatalf("RunAuto returned %q, %v", sel.Name, res)
	}
	if d := maxDiff(res.C, matscale.Mul(a, b)); d > 1e-10 {
		t.Fatalf("RunAuto product differs by %v", d)
	}
}

func TestRunAutoFallsBack(t *testing.T) {
	// p = 64 and n = 40: n^1.5=252 ≥ 64 → Berntsen region; Berntsen
	// needs 16 | 40: fails → falls back to GK (4 | 40).
	m := matscale.SIMD(64)
	a := matscale.RandomMatrix(40, 40, 7)
	b := matscale.RandomMatrix(40, 40, 8)
	res, sel, err := matscale.RunAuto(m, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Name != "GK" {
		t.Fatalf("fallback chose %s, want GK", sel.Name)
	}
	if d := maxDiff(res.C, matscale.Mul(a, b)); d > 1e-10 {
		t.Fatalf("product differs by %v", d)
	}
}

func TestRunAutoRejectsBadShapes(t *testing.T) {
	m := matscale.SIMD(4)
	_, _, err := matscale.RunAuto(m, matscale.NewMatrix(3, 4), matscale.NewMatrix(4, 3))
	if err == nil || !strings.Contains(err.Error(), "square") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunAutoNoAlgorithmFits(t *testing.T) {
	// Prime matrix size with a large processor count nothing divides.
	m := matscale.SIMD(64)
	a := matscale.RandomMatrix(7, 7, 9)
	_, _, err := matscale.RunAuto(m, a, a)
	if err == nil || !strings.Contains(err.Error(), "no algorithm accepts") {
		t.Fatalf("err = %v", err)
	}
}

func maxDiff(a, b *matscale.Matrix) float64 {
	var max float64
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}

func TestFacadeVariantAlgorithms(t *testing.T) {
	a := matscale.RandomMatrix(16, 16, 21)
	b := matscale.RandomMatrix(16, 16, 22)
	want := matscale.Mul(a, b)
	cases := []struct {
		name string
		alg  matscale.Algorithm
		m    *matscale.Machine
	}{
		{"FoxMesh", matscale.FoxMesh, matscale.Hypercube(16, 17, 3)},
		{"FoxAsync", matscale.FoxAsync, matscale.Hypercube(16, 17, 3)},
		{"SimpleMemEfficientAllPort", matscale.SimpleMemEfficientAllPort, allPortHC(16)},
		{"SimpleAllPort", matscale.SimpleAllPort, allPortHC(16)},
		{"GKAllPort", matscale.GKAllPort, allPortHC(64)},
		{"DNSWithGrid", func(m *matscale.Machine, a, b *matscale.Matrix) (*matscale.Result, error) {
			return matscale.Run(matscale.DNS, m, a, b, matscale.WithDNSGrid(8))
		}, matscale.Hypercube(128, 17, 3)},
	}
	for _, c := range cases {
		res, err := c.alg(c.m, a, b)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if d := maxDiff(res.C, want); d > 1e-10 {
			t.Errorf("%s: product differs by %v", c.name, d)
		}
	}
}

func allPortHC(p int) *matscale.Machine {
	m := matscale.Hypercube(p, 17, 3)
	m.AllPort = true
	return m
}
