"""The classifier kinds by name, declared apart from ``models`` so that the
CLI can offer them as choices without loading numpy."""

MODEL_KINDS = ("random_forest", "decision_tree", "logistic_regression",
               "linear_svm", "gaussian_nb", "ann")
