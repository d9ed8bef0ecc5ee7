"""tcalab: exact invariants of GL-equivariant modules over Sym(C^inf).

Modules are organized by what they compute:

    partitions   partition arithmetic, strips, injective resolutions of
                 simples, border strips
    symchar      symmetric group characters, Littlewood-Richardson rule,
                 the Combination core shared by the S/L/Q classes and the
                 t/a polynomials
    polynomials  the output form of series and character polynomials:
                 Fraction polynomials whose monomials are partitions;
                 exp(T_0) as the all-ones D combination
    ktheory      Grothendieck group bases, products, pairing, Fourier involution
    hilbert      enhanced Hilbert series and character polynomials
    homalg       local cohomology, depth, resolution shapes, regularity,
                 Poincare series, the Fourier transform on classes
    quiver       finite quiver truncations used for machine verification
    cli          the tcalab command line tool
"""

__version__ = "0.1.0"


class InternalError(Exception):
    """An internal invariant failed: the program, not its input, is at
    fault.  The CLI reports it as an `invariant_violation` and exits 3."""
