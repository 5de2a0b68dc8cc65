package topogen

import (
	"fmt"
	"os"
	"path/filepath"

	"yardstick/internal/netmodel"
)

// Loaded is a network resolved from the -net / -topology / -k flags the
// command-line tools share. Roles is the row order of the by-role
// coverage table (the generator's tier order; device order for a file),
// and Regional the generator metadata the wan test needs, nil unless the
// network is the generated regional one.
type Loaded struct {
	Net      *netmodel.Network
	Roles    []netmodel.Role
	Regional *Regional
}

// Load reads netFile (text format when the extension is .txt, else JSON)
// or, with no file, generates the named topology: example (bug injects
// the null-routed default on b2), fattree of arity k, or regional.
func Load(netFile, topology string, k int, bug bool) (*Loaded, error) {
	if netFile != "" {
		f, err := os.Open(netFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var net *netmodel.Network
		if filepath.Ext(netFile) == ".txt" {
			net, err = netmodel.ParseText(f)
		} else {
			net, err = netmodel.DecodeJSON(f)
		}
		if err != nil {
			return nil, err
		}
		return &Loaded{Net: net, Roles: net.Roles()}, nil
	}
	switch topology {
	case "example":
		ex, err := BuildExample(ExampleOpts{BugNullRoute: bug})
		if err != nil {
			return nil, err
		}
		return &Loaded{Net: ex.Net,
			Roles: []netmodel.Role{netmodel.RoleLeaf, netmodel.RoleSpine, netmodel.RoleBorder}}, nil
	case "fattree":
		ft, err := BuildFatTree(k)
		if err != nil {
			return nil, err
		}
		return &Loaded{Net: ft.Net,
			Roles: []netmodel.Role{netmodel.RoleToR, netmodel.RoleAgg, netmodel.RoleCore}}, nil
	case "regional":
		rg, err := BuildRegional(RegionalOpts{})
		if err != nil {
			return nil, err
		}
		return &Loaded{Net: rg.Net, Regional: rg,
			Roles: []netmodel.Role{netmodel.RoleToR, netmodel.RoleAgg, netmodel.RoleSpine, netmodel.RoleHub}}, nil
	}
	return nil, fmt.Errorf("unknown topology %q (want example, fattree, or regional, or use -net)", topology)
}
