package cliutil

import (
	"testing"

	"hetgrid"
)

func TestParseTimes(t *testing.T) {
	got, err := ParseTimes("1, 2.5,3")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2.5, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseTimes = %v", got)
		}
	}
	if _, err := ParseTimes("1,x,3"); err == nil {
		t.Fatal("bad value accepted")
	}
	if _, err := ParseTimes(""); err == nil {
		t.Fatal("empty string accepted")
	}
}

func TestParseArrangement(t *testing.T) {
	got, err := ParseArrangement("1,2;3,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0][1] != 2 || got[1][0] != 3 {
		t.Fatalf("ParseArrangement = %v", got)
	}
	if _, err := ParseArrangement("1,2;3"); err == nil {
		t.Fatal("ragged arrangement accepted")
	}
	if _, err := ParseArrangement("1,x;3,4"); err == nil {
		t.Fatal("bad value accepted")
	}
}

func TestParsePanel(t *testing.T) {
	bp, bq, err := ParsePanel("8x6")
	if err != nil || bp != 8 || bq != 6 {
		t.Fatalf("8x6: %d %d %v", bp, bq, err)
	}
	if _, _, err := ParsePanel("8X6"); err != nil {
		t.Fatal("uppercase X rejected")
	}
	for _, bad := range []string{"8", "x6", "ax6", "8xb", "0x6", "8x-1"} {
		if _, _, err := ParsePanel(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestOrderLetters(t *testing.T) {
	if got := OrderLetters([]int{0, 1, 0, 0, 1, 0}); got != "ABAABA" {
		t.Fatalf("OrderLetters = %q", got)
	}
	if got := OrderLetters([]int{26}); got != "(26)" {
		t.Fatalf("overflow rendering = %q", got)
	}
	if got := OrderLetters(nil); got != "" {
		t.Fatalf("empty = %q", got)
	}
}

func TestFormatFloats(t *testing.T) {
	if got := FormatFloats([]float64{1, 0.5}, 2); got != "[1.00 0.50]" {
		t.Fatalf("FormatFloats = %q", got)
	}
}

func TestParseSlowdownSchedule(t *testing.T) {
	got, err := ParseSlowdownSchedule(" 3@0*8 , 3@5*1 ")
	if err != nil {
		t.Fatal(err)
	}
	want := []hetgrid.SlowdownPoint{{Rank: 3, Step: 0, Factor: 8}, {Rank: 3, Step: 5, Factor: 1}}
	if len(got) != len(want) {
		t.Fatalf("ParseSlowdownSchedule = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseSlowdownSchedule = %v", got)
		}
	}
	if s, err := ParseSlowdownSchedule("  "); err != nil || s != nil {
		t.Fatalf("blank schedule: %v, %v", s, err)
	}
	for _, bad := range []string{"3@0", "3*8", "x@0*8", "3@x*8", "3@0*x", "-1@0*8", "3@-1*8", "3@0*0.5", "3@0*-2", "3@0*NaN"} {
		if _, err := ParseSlowdownSchedule(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}
