"""Abstract-index expression engine: parser, canonicalizer, rewriter.

The submodules load on first use of one of their names, so ``verify`` never
loads ``evaluate``, the numeric oracle, or numpy.
"""

from .. import _lazy_getattr

# Each public name and the submodule that defines it.
_SUBMODULES = {
    "canonicalize": "canon",
    "component_map": "canon",
    "IdentityCase": "corpus",
    "builtin_rules": "corpus",
    "parse_identity_file": "corpus",
    "run_identity_cases": "corpus",
    "shipped_corpus_text": "corpus",
    "component_eval": "evaluate",
    "Expr": "expr",
    "Factor": "expr",
    "Idx": "expr",
    "Term": "expr",
    "Kernel": "kernels",
    "KernelTable": "kernels",
    "Parser": "parse",
    "RewriteRule": "rewrite",
    "VerificationReport": "rewrite",
    "apply_rules": "rewrite",
    "verify_identity": "rewrite",
    "expr_weight": "weights",
    "term_weight": "weights",
}

__all__ = list(_SUBMODULES)
__getattr__ = _lazy_getattr(__name__, _SUBMODULES)
