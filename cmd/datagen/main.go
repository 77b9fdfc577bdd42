// Command datagen writes the synthetic evaluation networks (YNG, MID, UNT,
// CRE) to disk as edge lists, with module ground truth as comments in a
// sidecar file.
//
// Usage:
//
//	datagen -dir data          # writes data/YNG.edges, data/YNG.modules, ...
//	datagen -dir data -only CRE
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"parsample/internal/datasets"
	"parsample/internal/graph"
)

func main() {
	dir := flag.String("dir", "data", "output directory")
	only := flag.String("only", "", "write a single dataset (YNG|MID|UNT|CRE)")
	flag.Parse()

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatalf("mkdir: %v", err)
	}
	for _, ds := range datasets.All() {
		if *only != "" && ds.Name != *only {
			continue
		}
		edgePath := filepath.Join(*dir, ds.Name+".edges")
		if err := writeEdges(edgePath, ds.G); err != nil {
			fatalf("%s: %v", edgePath, err)
		}
		modPath := filepath.Join(*dir, ds.Name+".modules")
		if err := writeModules(modPath, ds.Modules); err != nil {
			fatalf("%s: %v", modPath, err)
		}
		fmt.Printf("%s: %d vertices, %d edges, %d modules -> %s, %s\n",
			ds.Name, ds.G.N(), ds.G.M(), len(ds.Modules), edgePath, modPath)
	}
}

// writeEdges writes g as an edge list to a new file at path.
func writeEdges(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeModules writes one "module i: v v ..." line per module to a new
// file at path. Write errors surface at Flush (bufio keeps the first one),
// and a failed Close is reported too.
func writeModules(path string, modules [][]int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, mod := range modules {
		fmt.Fprintf(w, "module %d:", i)
		for _, v := range mod {
			fmt.Fprintf(w, " %d", v)
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "datagen: "+format+"\n", args...)
	os.Exit(1)
}
