"""Combinatorial object families: permutations, trees, lattice paths, histories."""
