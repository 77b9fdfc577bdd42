package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"parsample/internal/datasets"
)

// datagenMain runs `parsample datagen`: it writes the synthetic evaluation
// networks (YNG, MID, UNT, CRE) to -dir as edge lists, each with a
// sidecar file of its planted modules.
func datagenMain(args []string) {
	if err := runDatagen(args, os.Stdout); err != nil {
		fatalf("datagen: %v", err)
	}
}

// runDatagen is datagenMain with its failures returned. An unknown -only
// name is an error before anything is built or written.
func runDatagen(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("parsample datagen", flag.ExitOnError)
	var (
		dir  = fs.String("dir", "data", "output directory")
		only = fs.String("only", "", "write a single dataset (YNG|MID|UNT|CRE)")
	)
	fs.Parse(args)

	var list []*datasets.Dataset
	if *only == "" {
		list = datasets.All()
	} else {
		spec, ok := datasets.SpecFor(*only)
		if !ok {
			return fmt.Errorf("unknown dataset %q (want YNG|MID|UNT|CRE)", *only)
		}
		list = []*datasets.Dataset{datasets.Build(spec)}
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return fmt.Errorf("mkdir: %v", err)
	}
	for _, ds := range list {
		edgePath := filepath.Join(*dir, ds.Name+".edges")
		if err := writeNetworkFile(edgePath, ds.G); err != nil {
			return fmt.Errorf("%s: %v", edgePath, err)
		}
		modPath := filepath.Join(*dir, ds.Name+".modules")
		if err := writeModules(modPath, ds.Modules); err != nil {
			return fmt.Errorf("%s: %v", modPath, err)
		}
		fmt.Fprintf(stdout, "%s: %d vertices, %d edges, %d modules -> %s, %s\n",
			ds.Name, ds.G.N(), ds.G.M(), len(ds.Modules), edgePath, modPath)
	}
	return nil
}

// writeModules writes one "module i: v v ..." line per module to a new
// file at path. Write errors surface at Flush (bufio keeps the first one).
func writeModules(path string, modules [][]int32) error {
	return writeFile(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		for i, mod := range modules {
			fmt.Fprintf(w, "module %d:", i)
			for _, v := range mod {
				fmt.Fprintf(w, " %d", v)
			}
			fmt.Fprintln(w)
		}
		return w.Flush()
	})
}
