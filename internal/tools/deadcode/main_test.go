package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestScanReportsOnlyUnnamedExportedFuncs(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("lib/lib.go", `package lib

type T struct{}

func Used() {}
func Dead() {}
func (*T) DeadMethod() {}
func (T) CalledByOther() {}
func OnlyTests() {}
func unexported() {}
func Recursive() { Recursive() }
`)
	write("lib/lib_test.go", "package lib\n\nfunc init() { OnlyTests() }\n")
	write("perfbench/main.go", "package main\n\nfunc main() { lib.Used(); var t lib.T; t.CalledByOther() }\n")
	write(".hidden/x.go", "package x\n\nfunc Hidden() {}\n")

	got, err := scan(root)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = strings.TrimPrefix(got[i], filepath.ToSlash(root)+"/")
	}
	want := []string{
		"lib/lib.go:6: Dead",
		"lib/lib.go:7: T.DeadMethod",
		"lib/lib.go:9: OnlyTests",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan = %q, want %q", got, want)
	}
}
